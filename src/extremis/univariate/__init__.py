"""Univariate peaks-over-threshold modelling with covariate dependence."""
from .ald import AldParams, check_loss, fit_ald
from .gpd import (GpdFit, GpdParams, GpdRegression, RegressionSpec,
                  exceedance_fraction, fit_gpd_mle, fit_gpd_regression,
                  gpd_cdf, gpd_logpdf, gpd_quantile)
from .loss import bootstrap_weights, expected_loss, minimize_expected_loss
from .returns import (BinGpdModel, ProfileInterval, gpd_return_level,
                      profile_return_level_ci, return_level_closed,
                      solve_return_level)
from .scoring import (SIGMA_MIN, CvModelSummary, IntervalForecast,
                      cv_interval_score, interval_score, predictive_quantiles,
                      preset_model_specs, sample_params_gaussian)

__all__ = [
    "AldParams", "BinGpdModel", "CvModelSummary", "GpdFit", "GpdParams",
    "GpdRegression", "IntervalForecast", "ProfileInterval", "RegressionSpec",
    "SIGMA_MIN",
    "bootstrap_weights", "check_loss", "cv_interval_score",
    "exceedance_fraction", "expected_loss", "fit_ald", "fit_gpd_mle",
    "fit_gpd_regression", "gpd_cdf", "gpd_logpdf", "gpd_quantile",
    "gpd_return_level", "interval_score", "minimize_expected_loss",
    "predictive_quantiles", "preset_model_specs",
    "profile_return_level_ci", "return_level_closed",
    "sample_params_gaussian", "solve_return_level",
]
