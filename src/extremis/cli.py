"""Command-line front end.

Every command echoes a JSON document with a ``result`` payload and a
``manifest`` recording the seed, flags, input hashes and library versions,
so any stochastic run can be replayed exactly.  Outputs are written
atomically (temp file then rename).  Exit codes: 0 success, 1 computation
failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, condex, mgpd, simulate, taildep, univariate, validate
from .core import (ClampCounter, Dataset, MarginSpec, derive_rng,
                   load_dataset, make_dataset, read_csv, transform_margin)
from .mvnt import OrthantQuery, mvn_rect, mvt_rect


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _manifest(args, inputs) -> dict:
    import scipy
    return {
        "command": args.command,
        "flags": {k: _sanitize(v) for k, v in sorted(vars(args).items())
                  if k not in ("func",)},
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "versions": {"extremis": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _emit(args, result: dict, inputs=()) -> None:
    doc = {"result": _sanitize(result), "manifest": _manifest(args, inputs)}
    if getattr(args, "format", "json") == "csv" and "table" in result:
        payload = _to_csv(result["table"])
    else:
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, payload)
    else:
        sys.stdout.write(payload)


def _atomic_write(path, text: str) -> None:
    """Write via a temp file renamed over ``path``; removed on failure."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _to_csv(table: dict) -> str:
    cols = list(table.keys())
    rows = zip(*[table[c] for c in cols])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_margins(spec: str, names) -> list:
    """Margin declarations: one kind for all columns, a comma list, or
    name=kind pairs."""
    if spec is None:
        return ["empirical"] * len(names)
    if "=" in spec:
        out = ["empirical"] * len(names)
        for item in spec.split(","):
            name, kind = item.split("=", 1)
            name = name.strip()
            if name not in names:
                raise ValueError(f"unknown column {name!r} in --margins")
            out[names.index(name)] = kind.strip()
        return out
    kinds = [s.strip() for s in spec.split(",")]
    if len(kinds) == 1:
        return kinds * len(names)
    if len(kinds) != len(names):
        raise ValueError("margin list must match the column count")
    return kinds


def _load(args) -> Dataset:
    names, values = read_csv(args.input)
    margins = _parse_margins(getattr(args, "margins", None), list(names))
    return make_dataset(names, values, margins)


def _columns(spec: str | None, names) -> tuple[int, ...]:
    if not spec:
        return ()
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item not in names:
            raise ValueError(f"unknown column {item!r}")
        out.append(names.index(item))
    return tuple(out)


def _response_and_covariates(ds: Dataset, response: str):
    """The response column, the other columns as a covariate matrix, and
    their names."""
    names = list(ds.names)
    y = ds.column(response)
    resp = names.index(response)
    cov_cols = [i for i in range(ds.dim) if i != resp]
    return y, ds.values[:, cov_cols], [names[i] for i in cov_cols]


def _dependence_model(family: str, args) -> mgpd.MgpdModel:
    named = mgpd.FAMILIES.get(family)
    if named is None:
        raise ValueError(f"unknown family {family!r}")
    return named.model(getattr(args, named.parameter), args.dim)


# ---------------------------------------------------------------- commands


def _regression_spec(args, cov_names) -> univariate.RegressionSpec:
    return univariate.RegressionSpec(_columns(args.sigma_covariates, cov_names),
                                     _columns(args.xi_covariates, cov_names),
                                     tuple(cov_names))


def _threshold_fit(args):
    """Response, excesses over the quantile threshold, GPD fit, BinGpdModel."""
    y = _load(args).column(args.response)
    u = float(np.quantile(y, args.threshold_quantile))
    exc = y[y > u] - u
    fit = univariate.fit_gpd_mle(exc)
    return y, exc, fit, univariate.BinGpdModel(u, float(np.mean(y > u)), fit.params)


BOOTSTRAP_BLOCK = 64  # resamples drawn at once by _bootstrap_quantiles


def _bootstrap_quantiles(y, q, n_draws, rng, block=BOOTSTRAP_BLOCK):
    """The q-quantile of each of ``n_draws`` bootstrap resamples of ``y``.

    Resamples ``block`` rows of indices at a time; consecutive draws continue
    the generator's stream, so the result equals one (n_draws, n) draw
    while holding only (block, n) of it.
    """
    out = np.empty(n_draws)
    for a in range(0, n_draws, block):
        idx = rng.integers(0, y.size, size=(min(block, n_draws - a), y.size))
        out[a:a + block] = np.quantile(y[idx], q, axis=1)
    return out


def cmd_fit_gpd(args) -> dict:
    y, X, cov_names = _response_and_covariates(_load(args), args.response)
    u = np.full(y.size, np.quantile(y, args.threshold_quantile))
    fit = univariate.fit_gpd_regression(X, y, u, _regression_spec(args, cov_names))
    return {
        "threshold": float(u[0]),
        "zeta_u": univariate.exceedance_fraction(y, u),
        "coefficients": {"log_sigma": fit.beta_sigma, "xi": fit.beta_xi},
        "design_columns": fit.design_columns,
        "covariance": fit.cov,
        "loglik": fit.loglik,
        "n_exceed": fit.n_exceed,
        "flags": fit.flags,
    }


def cmd_fit_threshold(args) -> dict:
    y, X, cov_names = _response_and_covariates(_load(args), args.response)
    keep = _columns(args.covariates, cov_names) if args.covariates else tuple(range(len(cov_names)))
    X = X[:, list(keep)]
    fit = univariate.fit_ald(X, y, args.tau)
    return {
        "tau": fit.tau,
        "coefficients": fit.beta_eta,
        "columns": ["intercept"] + [cov_names[i] for i in keep],
        "nu": fit.nu,
        "covariance": fit.cov,
        "loglik": fit.loglik,
        "below_fraction": float(np.mean(y <= fit.predict(X))),
    }


def cmd_return_level(args) -> dict:
    _, exc, fit, model = _threshold_fit(args)
    level = univariate.return_level_closed(model, args.T, args.ny)
    ci = univariate.profile_return_level_ci(exc, model.zeta_u, args.T, args.ny,
                                            level=args.profile_level, u=model.u)
    return {
        "threshold": model.u, "zeta_u": model.zeta_u,
        "sigma": fit.params.sigma, "xi": fit.params.xi,
        "return_level": level,
        "profile_interval": {"lower": ci.lower, "upper": ci.upper,
                             "level": ci.level, "flags": ci.flags},
        "T": args.T, "ny": args.ny,
    }


def _parse_model_specs(spec: str, names) -> list[univariate.RegressionSpec]:
    if spec.startswith("preset:"):
        season, regime = (s.strip() for s in spec[7:].split(","))
        return univariate.preset_model_specs(names, season, regime)
    out = []
    for chunk in spec.split(";"):
        sigma, xi = (), ()
        for part in chunk.split("&"):
            part = part.strip()
            if part.startswith("sigma:"):
                sigma = _columns(part[6:], names)
            elif part.startswith("xi:"):
                xi = _columns(part[3:], names)
            elif part:
                raise ValueError(f"bad model spec fragment {part!r}")
        out.append(univariate.RegressionSpec(sigma, xi, tuple(names)))
    return out


def cmd_cv_score(args) -> dict:
    y, X, cov_names = _response_and_covariates(_load(args), args.response)
    u = np.full(y.size, np.quantile(y, args.threshold_quantile))
    specs = _parse_model_specs(args.models, cov_names)
    out = univariate.cv_interval_score(X, y, u, specs, alpha=args.alpha,
                                       repeats=args.repeats, seed=args.seed,
                                       n_draws=args.n_draws)
    return {"models": [{
        "spec": {"sigma": s.spec.label(s.spec.sigma_columns),
                 "xi": s.spec.label(s.spec.xi_columns)},
        "scores": s.scores, "coverages": s.coverages,
        "mean_score": s.mean_score, "mean_coverage": s.mean_coverage,
        "n_excluded": s.n_excluded, "n_dropped_repeats": s.n_dropped_repeats,
    } for s in out]}


def cmd_loss_min(args) -> dict:
    names, values = read_csv(args.input)
    col = names.index(args.column) if args.column else 0
    q = values[:, col]
    weights = None
    if args.bootstrap:
        weights = univariate.bootstrap_weights(q.size, args.bootstrap, args.seed)
    qhat = univariate.minimize_expected_loss(q, weights)
    return {"minimizer": qhat,
            "expected_loss": univariate.expected_loss(q, qhat, weights),
            "n_samples": int(q.size), "bootstrap": args.bootstrap}


def cmd_taildep(args) -> dict:
    ds = _load(args)
    clamp = ClampCounter()
    U = ds.to_uniform(clamp)
    levels = [float(v) for v in args.levels.split(",")]
    rows = taildep.taildep_profile(U, levels)
    table = {
        "level": [r.level for r in rows],
        "chi": [r.chi for r in rows],
        "chi_se": [float(np.sqrt(r.chi_var)) for r in rows],
        "eta": [r.eta for r in rows],
        "eta_se": [r.eta_se for r in rows],
        "n_exceed": [r.n_exceed for r in rows],
    }
    return {"table": table, "clamped": clamp.count}


def _fit_condex(args, ds: Dataset):
    L = ds.to_margin(MarginSpec("laplace"))
    if args.gaussian:
        return condex.fit_ht_exchangeable_gaussian(
            L, threshold_quantile=args.threshold_quantile)
    return condex.fit_ht_exchangeable_skewnormal(
        L, threshold_quantile=args.threshold_quantile)


def _condex_fit_payload(fit) -> dict:
    law = fit.residual_law
    law_doc = ({"kind": "skewnormal", "nu": law.nu, "omega": law.omega,
                "kappa": law.kappa}
               if isinstance(law, condex.SkewNormal)
               else {"kind": "gaussian", "mu": law.mu, "sigma": law.sigma})
    return {"alpha": fit.alpha, "beta": fit.beta, "threshold": fit.threshold,
            "residual_law": law_doc, "pool_size": int(fit.residual_pool.shape[0]),
            "se": fit.se, "loglik": fit.loglik, "flags": fit.flags}


def cmd_condex_fit(args) -> dict:
    ds = _load(args)
    return _condex_fit_payload(_fit_condex(args, ds))


def cmd_condex_prob(args) -> dict:
    ds = _load(args)
    fit = _fit_condex(args, ds)
    v = float(MarginSpec("laplace").quantile(args.level)) if args.level_is_quantile else args.level
    ana = condex.ht_prob_analytic(fit, v, paper_literal=args.paper_literal)
    d = fit.dim
    sim_p, sim_se, sim_flags = condex.ht_prob_simulation(
        fit, np.full(d, v), np.full(d, np.inf), v, args.n_sim, args.seed,
        cond=0, pool_rows="all")
    return {"fit": _condex_fit_payload(fit), "level": v,
            "log_prob_analytic": ana.log_prob,
            "prob_analytic": ana.prob,
            "prob_simulation": sim_p, "se_simulation": sim_se,
            "n_unreachable": ana.n_unreachable,
            "flags": ana.flags + sim_flags}


def cmd_condex_prob2(args) -> dict:
    ds = _load(args)
    fit = _fit_condex(args, ds)
    groups = _parse_groups(args.groups, ds.dim)
    lap = MarginSpec("laplace")
    s1 = float(lap.quantile(args.s1)) if args.level_is_quantile else args.s1
    s2 = float(lap.quantile(args.s2)) if args.level_is_quantile else args.s2
    out = condex.ht_prob_two_level(fit, groups, s1, s2,
                                   exchangeable=not args.no_permute,
                                   paper_literal=args.paper_literal,
                                   seed=args.seed)
    return {"fit": _condex_fit_payload(fit), "s1": s1, "s2": s2,
            "log_prob": out.log_prob, "prob": out.prob,
            "n_assignments": out.n_used, "flags": out.flags}


def _parse_groups(spec: str, d: int):
    parts = spec.split("|")
    if len(parts) != 2:
        raise ValueError("groups must be 'i,j,...|k,l,...'")
    g1 = [int(v) for v in parts[0].split(",") if v.strip() != ""]
    g2 = [int(v) for v in parts[1].split(",") if v.strip() != ""]
    return g1, g2


def cmd_mgpd_fit(args) -> dict:
    ds = _load(args)
    fre = ds.to_margin(MarginSpec("frechet"))
    u = np.quantile(fre, args.threshold_quantile, axis=0)
    censor = np.quantile(fre, args.censor_quantile, axis=0)
    family = mgpd.fitted_family(args.family)
    fit = family.fit(fre, u, censor)
    chi = mgpd.model_chi(family.model(fit.estimate, ds.dim), ds.dim)
    return {"family": args.family, "estimate": fit.estimate, "se": fit.se,
            "model_chi": chi, "loglik": fit.loglik, "n_rows": fit.n_rows,
            "n_dropped": fit.n_dropped, "flags": fit.flags}


def cmd_mgpd_prob(args) -> dict:
    ds = _load(args)
    fre = ds.to_margin(MarginSpec("frechet"))
    u = np.quantile(fre, args.threshold_quantile, axis=0)
    if args.level_quantile is not None:
        s = np.full(ds.dim, float(MarginSpec("frechet").quantile(args.level_quantile)))
    else:
        s = np.full(ds.dim, args.level)
    s = np.maximum(s, u)
    family = mgpd.fitted_family(args.family)
    fit = family.fit(fre, u, u)
    model = family.model(fit.estimate, ds.dim)
    prob = mgpd.joint_exceedance_prob(model, fre, u, s, seed=args.seed)
    return {"family": args.family, "estimate": fit.estimate,
            "levels": s, "thresholds": u,
            "prob": prob, "log_prob": float(np.log(max(prob, 1e-300)))}


def cmd_mvn_tail(args) -> dict:
    lower = np.array([float(v) for v in args.lower.split(",")])
    upper = np.array([float(v) for v in args.upper.split(",")])
    rows = [r for r in args.sigma.split(";") if r.strip()]
    sigma = np.array([[float(v) for v in r.split(",")] for r in rows])
    mu = np.zeros(lower.size) if args.mu is None else np.array(
        [float(v) for v in args.mu.split(",")])
    q = OrthantQuery(lower, upper, mu, sigma, df=args.df)
    p, se = (mvt_rect if args.df else mvn_rect)(q, args.n_points, args.seed)
    return {"prob": p, "se": se, "dim": int(lower.size), "df": args.df}


def cmd_simulate(args) -> dict:
    model = _dependence_model(args.family, args)
    u = np.array([float(v) for v in args.u.split(",")]) if args.u else np.ones(args.dim)
    fn = simulate.RiskFunctional(args.functional, u)
    out = simulate.composition_sample(model, fn, args.n, args.seed)
    if args.out_samples:
        header = ",".join(f"y{j+1}" for j in range(u.size))
        body = "\n".join(",".join(repr(float(v)) for v in row)
                         for row in out.samples)
        _atomic_write(args.out_samples, header + "\n" + body + "\n")
    freq = np.bincount(out.pivot, minlength=u.size) / args.n
    return {"n": args.n, "functional": args.functional,
            "pivot_frequencies": freq, "flags": out.flags,
            "samples_file": args.out_samples}


def cmd_mixture_experiment(args) -> dict:
    if ":" in args.alpha_grid:
        lo, hi, cnt = args.alpha_grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(cnt))
    else:
        grid = np.array([float(v) for v in args.alpha_grid.split(",")])
    levels = [float(v) for v in args.levels.split(",")]
    table = simulate.mixture_threshold_experiment(grid, args.n_per, levels,
                                                  args.seed, d=args.dim)
    return {"table": {
        "alpha": list(np.repeat(table.alpha_grid, len(levels))),
        "level": list(np.tile(table.levels, len(grid))),
        "share": list(table.shares.ravel()),
        "count": [int(c) for c in table.counts.ravel()],
    }}


def cmd_cluster(args) -> dict:
    ds = _load(args)
    tau = validate.kendall_tau_matrix(ds.values)
    cs = validate.ward_cluster(tau, args.k)
    return {"blocks": [list(b) for b in cs.blocks], "tau": tau,
            "names": list(ds.names)}


def cmd_exch_test(args) -> dict:
    ds = _load(args)
    blocks = tuple(tuple(int(v) for v in b.split(",")) for b in args.blocks.split("|"))
    res = validate.exch_test(ds.values, validate.ClusterSpec(blocks),
                             n_mc=args.n_mc, seed=args.seed)
    return {"E_n": res.e_n, "M_n": res.m_n, "p_E": res.p_e, "p_M": res.p_m,
            "p_E_chi2": res.p_e_chi2, "L": res.L, "df": res.df,
            "flags": res.flags}


def cmd_model_select(args) -> dict:
    ds = _load(args)
    rows = []
    for fitter in args.fitters.split(","):
        score = validate.subset_chi_cv(ds.values, args.k, args.level,
                                       fitter.strip(),
                                       fit_quantile=args.fit_quantile,
                                       seed=args.seed)
        rows.append({"fitter": fitter.strip(), "score": score.score,
                     "n_subsets": score.n_subsets, "n_failed": score.n_failed})
    return {"scores": rows, "k": args.k, "level": args.level}


# ------------------------------------------------------------------ tasks


def cmd_task2(args) -> dict:
    y, _, fit, model = _threshold_fit(args)
    u, zeta, n = model.u, model.zeta_u, y.size
    rng = derive_rng(args.seed)
    draws = univariate.sample_params_gaussian(fit, args.n_draws, seed=args.seed)
    if args.threshold_mode == "fixed":
        # threshold held fixed, exceedance probability treated as unknown
        u_draws = np.full(args.n_draws, u)
        zeta_draws = np.clip(rng.normal(zeta, np.sqrt(zeta * (1 - zeta) / n),
                                        size=args.n_draws), 1e-6, 1 - 1e-6)
    else:
        # threshold treated as random (bootstrap of the quantile
        # estimator), exceedance probability held at its level
        u_draws = _bootstrap_quantiles(y, args.threshold_quantile, args.n_draws, rng)
        zeta_draws = np.full(args.n_draws, zeta)
    lam = args.ny * args.T * zeta_draws
    keep = lam > 1.0
    qs = univariate.gpd_return_level(
        u_draws[keep], np.maximum(draws[keep, 0], univariate.SIGMA_MIN),
        draws[keep, 1], lam[keep])
    weights = None
    if args.bootstrap:
        weights = univariate.bootstrap_weights(qs.size, args.bootstrap,
                                               args.seed + 1)
    qhat = univariate.minimize_expected_loss(qs, weights)
    return {"loss_minimizer": qhat,
            "mle_return_level": univariate.return_level_closed(model, args.T, args.ny),
            "posterior_mean": float(qs.mean()), "n_draws_used": int(qs.size),
            "threshold": u, "zeta_u": zeta}


def cmd_task3(args) -> dict:
    ds = _load(args)
    if ds.dim != 3:
        raise ValueError(f"task3 needs 3 columns (two responses, then the "
                         f"conditioning variable), got {ds.dim}")
    gum = MarginSpec("gumbel")
    lap = MarginSpec("laplace")
    L = ds.to_margin(lap)
    y_lap = float(transform_margin(args.y, gum, lap))
    v_lap = float(transform_margin(args.v, gum, lap))
    m_gum = float(gum.quantile(0.5))

    fit = condex.fit_ht_exchangeable_gaussian(
        L, threshold_quantile=args.threshold_quantile)
    d = ds.dim
    p1_sim, p1_se, _ = condex.ht_prob_simulation(
        fit, np.full(d, y_lap), np.full(d, np.inf), y_lap, args.n_sim,
        args.seed, cond=0, pool_rows="all")
    p1_ana = condex.ht_prob_analytic(fit, y_lap)

    # hidden-regular-variation route on the exponential scale
    E = ds.to_margin(MarginSpec("exponential"))
    T = E.min(axis=1)
    u_t = float(np.quantile(T, args.threshold_quantile))
    y_exp = float(transform_margin(args.y, gum, MarginSpec("exponential")))
    p1_hrv = taildep.hrv_extrapolate(E, u_t, max(y_exp - u_t, 0.0))

    # p2: condition on the third variable sitting below its median
    below = ds.values[:, 2] < m_gum
    L2 = L[below][:, :2]
    fit2 = condex.fit_ht_exchangeable_gaussian(
        L2, threshold_quantile=args.threshold_quantile)
    p2_sim, p2_se, _ = condex.ht_prob_simulation(
        fit2, np.full(2, v_lap), np.full(2, np.inf), v_lap, args.n_sim,
        args.seed + 1, cond=0, pool_rows="all")
    p2_ana = condex.ht_prob_analytic(fit2, v_lap)
    return {
        "p1": {"simulation": p1_sim, "se": p1_se,
               "analytic": p1_ana.prob, "hrv": p1_hrv},
        "p2": {"simulation": 0.5 * p2_sim, "se": 0.5 * p2_se,
               "analytic": 0.5 * p2_ana.prob},
        "levels": {"y": args.y, "v": args.v, "median_gumbel": m_gum},
    }


def cmd_task4(args) -> dict:
    ds = _load(args)
    lap = MarginSpec("laplace")
    L = ds.to_margin(lap)
    jackknife = validate.tau_jackknife(ds.values)
    tau = validate.tau_b_matrix(ds.values, jackknife[0])
    clusters = validate.ward_cluster(tau, args.k)
    exch = validate.exch_test(ds.values, clusters, n_mc=args.n_mc,
                              seed=args.seed, jackknife=jackknife)
    phi1, phi2 = args.phi1, args.phi2
    s1 = float(lap.quantile(1.0 - phi1))
    s2 = float(lap.quantile(1.0 - phi2))
    u1_set = set(range(ds.dim // 2)) if args.u1 is None else {
        int(v) for v in args.u1.split(",")}
    out_clusters = []
    log_p1 = 0.0
    log_p2 = 0.0
    for block in clusters.blocks:
        Lb = L[:, block]
        fit = condex.fit_ht_exchangeable_skewnormal(
            Lb, threshold_quantile=args.threshold_quantile)
        p1 = condex.ht_prob_analytic(fit, s1)
        g1 = [i for i, c in enumerate(block) if c in u1_set]
        g2 = [i for i, c in enumerate(block) if c not in u1_set]
        p2 = condex.ht_prob_two_level(fit, (g1, g2), s1, s2, seed=args.seed)
        out_clusters.append({
            "columns": list(block),
            "alpha": fit.alpha, "beta": fit.beta, "flags": fit.flags,
            "log_p1": p1.log_prob, "log_p2": p2.log_prob,
        })
        log_p1 += p1.log_prob
        log_p2 += p2.log_prob
    return {
        "clusters": [list(b) for b in clusters.blocks],
        "exchangeability": {"p_E": exch.p_e, "p_M": exch.p_m,
                            "p_E_chi2": exch.p_e_chi2},
        "per_cluster": out_clusters,
        "log_p1_total": log_p1, "log_p2_total": log_p2,
        "levels": {"s1": s1, "s2": s2, "phi1": phi1, "phi2": phi2},
    }


def cmd_task1(args) -> dict:
    y, X, cov_names = _response_and_covariates(_load(args), args.response)
    ald = univariate.fit_ald(X, y, args.tau)
    gpd_fit = univariate.fit_gpd_regression(X, y, ald.predict(X),
                                            _regression_spec(args, cov_names))
    # conditional quantile above the threshold at the requested level
    p_exc = 1.0 - (1.0 - args.level) / (1.0 - args.tau)
    coef_ald = univariate.sample_params_gaussian(ald, args.n_draws, args.seed)
    coef_gpd = univariate.sample_params_gaussian(gpd_fit, args.n_draws,
                                                 args.seed + 1)
    Xp = X if args.predict is None else load_dataset(
        args.predict, ["empirical"] * len(cov_names)).values
    (point,), _, _ = univariate.predictive_quantiles(
        gpd_fit, gpd_fit.coefficients[None], Xp, p_exc, args.alpha,
        [ald.predict(Xp)])
    _, lo, hi = univariate.predictive_quantiles(
        gpd_fit, coef_gpd, Xp, p_exc, args.alpha,
        ald.predict_draws(Xp, coef_ald))
    return {"table": {
        "point": list(point), "lower": list(lo), "upper": list(hi),
    }, "level": args.level, "alpha": args.alpha,
        "gpd": {"log_sigma": gpd_fit.beta_sigma, "xi": gpd_fit.beta_xi}}


# ------------------------------------------------------------------ parser


def _add_common(p, seed=True, out=True, margins=True):
    if seed:
        p.add_argument("--seed", type=int,
                       default=int(os.environ.get("EXTREMIS_SEED", "0")))
    if out:
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    if margins:
        p.add_argument("--margins", help="margin kinds: one for all columns, "
                       "a comma list, or name=kind pairs (default empirical)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="extremis",
                                 description="extreme-value analysis toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-gpd", help="GPD regression above a constant threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--sigma-covariates", default="")
    p.add_argument("--xi-covariates", default="")
    _add_common(p)
    p.set_defaults(func=cmd_fit_gpd)

    p = sub.add_parser("fit-threshold", help="asymmetric Laplace quantile regression")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--covariates", default=None)
    p.add_argument("--tau", type=float, default=0.95)
    _add_common(p)
    p.set_defaults(func=cmd_fit_threshold)

    p = sub.add_parser("return-level", help="binomial-GPD return level with profile CI")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.9)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--ny", type=float, required=True)
    p.add_argument("--profile-level", type=float, default=0.95)
    _add_common(p)
    p.set_defaults(func=cmd_return_level)

    p = sub.add_parser("cv-score", help="cross-validated interval scores")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--models", required=True,
                   help="semicolon-separated: 'sigma:a,b&xi:c;sigma:&xi:'")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--n-draws", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_cv_score)

    p = sub.add_parser("loss-min", help="expected-loss return-level point estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--bootstrap", choices=("nonparametric", "bayesian"),
                   default=None)
    _add_common(p, margins=False)
    p.set_defaults(func=cmd_loss_min)

    p = sub.add_parser("taildep", help="chi/eta tail dependence table")
    p.add_argument("--input", required=True)
    p.add_argument("--levels", default="0.9,0.95,0.98,0.99")
    _add_common(p)
    p.set_defaults(func=cmd_taildep)

    pc = sub.add_parser("condex", help="conditional extremes")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    for name in ("fit", "prob", "prob2"):
        p = csub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--threshold-quantile", type=float, default=0.95)
        p.add_argument("--gaussian", action="store_true",
                       help="gaussian residual margins instead of skew-normal")
        p.add_argument("--paper-literal", action="store_true",
                       help="fold the margin tail into the exponent")
        if name == "prob":
            p.add_argument("--level", type=float, required=True)
            p.add_argument("--level-is-quantile", action="store_true")
            p.add_argument("--n-sim", type=int, default=1_000_000)
        if name == "prob2":
            p.add_argument("--s1", type=float, required=True)
            p.add_argument("--s2", type=float, required=True)
            p.add_argument("--level-is-quantile", action="store_true")
            p.add_argument("--groups", required=True,
                           help="column indices 'i,j|k,l'")
            p.add_argument("--no-permute", action="store_true")
        _add_common(p)
        p.set_defaults(func={"fit": cmd_condex_fit, "prob": cmd_condex_prob,
                             "prob2": cmd_condex_prob2}[name])

    pm = sub.add_parser("mgpd", help="multivariate generalized Pareto")
    msub = pm.add_subparsers(dest="subcommand", required=True)
    for name in ("fit", "prob"):
        p = msub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--family", required=True,
                       choices=[n for n, f in mgpd.FAMILIES.items() if f.fit])
        p.add_argument("--threshold-quantile", type=float, default=0.95)
        if name == "fit":
            p.add_argument("--censor-quantile", type=float, default=0.5)
        else:
            p.add_argument("--level", type=float, default=None,
                           help="common Frechet-scale target level")
            p.add_argument("--level-quantile", type=float, default=None)
        _add_common(p)
        p.set_defaults(func={"fit": cmd_mgpd_fit, "prob": cmd_mgpd_prob}[name])

    p = sub.add_parser("mvn-tail", help="normal/Student rectangle probability")
    p.add_argument("--lower", required=True)
    p.add_argument("--upper", required=True)
    p.add_argument("--sigma", required=True, help="rows 'a,b;c,d'")
    p.add_argument("--mu", default=None)
    p.add_argument("--df", type=float, default=None)
    p.add_argument("--n-points", type=int, default=100_000)
    _add_common(p, margins=False)
    p.set_defaults(func=cmd_mvn_tail)

    p = sub.add_parser("simulate", help="composition sampling")
    p.add_argument("--family", choices=list(mgpd.FAMILIES), required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--functional", choices=("min", "max", "sum"),
                   default="min")
    p.add_argument("--u", default=None, help="thresholds 'a,b,c'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-samples", default=None)
    _add_common(p, margins=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mixture-experiment",
                       help="exceedance shares across a dependence mixture")
    p.add_argument("--alpha-grid", default="0.4:0.9:100",
                   help="'lo:hi:count' or comma list")
    p.add_argument("--n-per", type=int, default=10_000)
    p.add_argument("--levels", default="0.8,0.9,0.95")
    p.add_argument("--dim", type=int, default=8)
    _add_common(p, margins=False)
    p.set_defaults(func=cmd_mixture_experiment)

    p = sub.add_parser("cluster", help="Kendall tau matrix and Ward blocks")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("exch-test", help="partial exchangeability test")
    p.add_argument("--input", required=True)
    p.add_argument("--blocks", required=True, help="'0,1,2|3,4,5'")
    p.add_argument("--n-mc", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=cmd_exch_test)

    p = sub.add_parser("model-select", help="leave-subset-out chi scores")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--level", type=float, default=0.99)
    p.add_argument("--fit-quantile", type=float, default=0.95)
    p.add_argument("--fitters", default="logistic,hr")
    _add_common(p)
    p.set_defaults(func=cmd_model_select)

    p = sub.add_parser("task1", help="conditional quantile intervals preset")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--predict", default=None,
                   help="CSV of covariate rows to predict (default: input rows)")
    p.add_argument("--tau", type=float, default=0.95)
    p.add_argument("--level", type=float, default=0.9999)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n-draws", type=int, default=1000)
    p.add_argument("--sigma-covariates", default="")
    p.add_argument("--xi-covariates", default="")
    _add_common(p)
    p.set_defaults(func=cmd_task1)

    p = sub.add_parser("task2", help="loss-based return level preset")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.9)
    p.add_argument("--threshold-mode", choices=("fixed", "random"),
                   default="fixed",
                   help="fixed threshold with unknown exceedance "
                   "probability (default) or bootstrap-random threshold")
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--ny", type=float, default=300.0)
    p.add_argument("--n-draws", type=int, default=10_000)
    p.add_argument("--bootstrap", choices=("nonparametric", "bayesian"),
                   default=None)
    _add_common(p)
    p.set_defaults(func=cmd_task2)

    p = sub.add_parser("task3", help="trivariate joint tail preset")
    p.add_argument("--input", required=True)
    p.add_argument("--y", type=float, default=6.0)
    p.add_argument("--v", type=float, default=7.0)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--n-sim", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=cmd_task3)

    p = sub.add_parser("task4", help="clustered high-dimensional tail preset")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--phi1", type=float, default=1.0 / 300.0)
    p.add_argument("--phi2", type=float, default=12.0 / 300.0)
    p.add_argument("--u1", default=None, help="comma list of U1 column indices")
    p.add_argument("--threshold-quantile", type=float, default=0.98)
    p.add_argument("--n-mc", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=cmd_task4)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs = [p for p in (getattr(args, "input", None),
                              getattr(args, "predict", None)) if p]
        _emit(args, args.func(args), inputs)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"extremis {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
