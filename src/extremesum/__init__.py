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
"""

from .errors import (
    ConfigError,
    ExtremeSumError,
    NumericError,
    QuadratureError,
    UnsupportedModelError,
)
from .models import (
    AffineModel,
    Exponential,
    FRECHET_DOMAIN,
    GUMBEL_DOMAIN,
    Gamma,
    Gumbel,
    LogNormal,
    Normal,
    Pareto,
    TailModel,
    UNKNOWN_DOMAIN,
    Uniform,
    WEIBULL_DOMAIN,
    Weibull,
    catalog,
    parse_model,
)
from .functionals import (
    FunctionalTable,
    SGrid,
    build_functional_table,
    rate_integral,
    representation_residual,
    scale_beta_ratio,
    sequence_slowvar_ratio,
    spacing_log_ratio,
    tail_mean,
    tail_scale,
    tail_variance,
    variance_scale_ratio,
)
from .limits import (
    DEFAULT_CHECKS,
    LimitCheckReport,
    domain_check,
    run_limit_suite,
    slow_variation_check,
)
from .sampling import (
    ReplicateDraw,
    SeedSpec,
    balkema_dehaan_stat,
    draw_batch,
    draw_sample_max,
    draw_top_k,
)
from .gof import anderson_darling, ks_distance
from .clt import (
    STATISTIC_IDS,
    CellFunctionals,
    ExperimentResult,
    GaussianMoments,
    KRule,
    NormalityReport,
    StatSample,
    StatSummary,
    cell_functionals,
    gumbel_cdf,
    gumbel_norming,
    limiting_gaussian_moments,
    mean_excess,
    run_experiment,
    statistic_T1,
    statistic_T2,
    statistic_T3,
    summarize_statistic,
)
from .config import ExperimentConfig

__version__ = "0.1.0"

__all__ = [
    "AffineModel",
    "CellFunctionals",
    "ConfigError",
    "DEFAULT_CHECKS",
    "ExperimentConfig",
    "ExperimentResult",
    "Exponential",
    "ExtremeSumError",
    "FRECHET_DOMAIN",
    "FunctionalTable",
    "GUMBEL_DOMAIN",
    "Gamma",
    "GaussianMoments",
    "Gumbel",
    "KRule",
    "LimitCheckReport",
    "LogNormal",
    "Normal",
    "NormalityReport",
    "NumericError",
    "Pareto",
    "QuadratureError",
    "ReplicateDraw",
    "SGrid",
    "STATISTIC_IDS",
    "SeedSpec",
    "StatSample",
    "StatSummary",
    "TailModel",
    "UNKNOWN_DOMAIN",
    "Uniform",
    "UnsupportedModelError",
    "WEIBULL_DOMAIN",
    "Weibull",
    "anderson_darling",
    "balkema_dehaan_stat",
    "build_functional_table",
    "catalog",
    "cell_functionals",
    "domain_check",
    "draw_batch",
    "draw_sample_max",
    "draw_top_k",
    "gumbel_cdf",
    "gumbel_norming",
    "ks_distance",
    "limiting_gaussian_moments",
    "mean_excess",
    "parse_model",
    "rate_integral",
    "representation_residual",
    "run_experiment",
    "run_limit_suite",
    "scale_beta_ratio",
    "sequence_slowvar_ratio",
    "slow_variation_check",
    "spacing_log_ratio",
    "statistic_T1",
    "statistic_T2",
    "statistic_T3",
    "summarize_statistic",
    "tail_mean",
    "tail_scale",
    "tail_variance",
    "variance_scale_ratio",
]
