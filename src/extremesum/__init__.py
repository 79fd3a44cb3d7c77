"""Asymptotics of sums of extreme values: functionals, checks, experiments.

The package studies the sum of the top k order statistics of an iid
sample whose distribution has a log-type (Gumbel) upper tail.  It
provides:

* a catalog of quantile-function models with tail metadata
  (:mod:`extremesum.models`);
* the tail functionals c(s, beta), sigma2(s), mu(s), rho(s) with closed
  forms where available and stable quadrature elsewhere
  (:mod:`extremesum.functionals`);
* finite-s checks of the s -> 0 limit statements driving the theory
  (:mod:`extremesum.limits`);
* O(k) sampling of top order statistics and the centered/scaled
  statistics T1, T2, T3 with replicated normality experiments
  (:mod:`extremesum.sampling`, :mod:`extremesum.clt`);
* a batch CLI with checksummed, reproducible outputs
  (:mod:`extremesum.cli`).

``import extremesum`` loads none of these modules: each public name
loads its module on first use (PEP 562), and so does each submodule
named as an attribute, e.g. ``extremesum.models``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_NAMES = {
    **dict.fromkeys(["ConfigError", "ExtremeSumError", "NumericError", "QuadratureError",
                     "UnsupportedModelError"], "errors"),
    **dict.fromkeys(["AffineModel", "Exponential", "FRECHET_DOMAIN", "GUMBEL_DOMAIN",
                     "Gamma", "Gumbel", "LogNormal", "Normal", "Pareto", "TailModel",
                     "UNKNOWN_DOMAIN", "Uniform", "WEIBULL_DOMAIN", "Weibull", "catalog",
                     "parse_model"], "models"),
    **dict.fromkeys(["FunctionalTable", "SGrid", "build_functional_table", "rate_integral",
                     "representation_residual", "scale_beta_ratio",
                     "sequence_slowvar_ratio", "spacing_log_ratio", "tail_mean",
                     "tail_scale", "tail_variance", "variance_scale_ratio"], "functionals"),
    **dict.fromkeys(["DEFAULT_CHECKS", "LimitCheckReport", "domain_check",
                     "run_limit_suite", "slow_variation_check"], "limits"),
    **dict.fromkeys(["ReplicateDraw", "SeedSpec", "balkema_dehaan_stat", "draw_batch",
                     "draw_sample_max", "draw_top_k"], "sampling"),
    **dict.fromkeys(["anderson_darling", "ks_distance"], "gof"),
    **dict.fromkeys(["STATISTIC_IDS", "CellFunctionals", "ExperimentResult",
                     "GaussianMoments", "KRule", "NormalityReport", "StatSample",
                     "StatSummary", "cell_functionals", "gumbel_cdf", "gumbel_norming",
                     "limiting_gaussian_moments", "mean_excess", "run_experiment",
                     "statistic_T1", "statistic_T2", "statistic_T3",
                     "summarize_statistic"], "clt"),
    "ExperimentConfig": "config",
}

# The package's modules, which resolve as attributes too.
_MODULES = {*_NAMES.values(), "cephes", "cli", "quadrature", "reports"}

__all__ = list(_NAMES)


def __getattr__(name):
    """A public name or a submodule, imported on first use and then kept
    in the package globals."""
    if name in _NAMES:
        value = getattr(import_module(f".{_NAMES[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_NAMES})
