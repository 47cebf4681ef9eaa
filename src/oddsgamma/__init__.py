"""Survival-odds gamma distributions: construction, fitting, comparison."""

from .base import BaseDistribution, make_exponential
from .data import Dataset, Summary, load_csv, summary, wheaton, write_csv
from .errors import DataError, DivergenceError, FitError, NumericalError
from .expgamma import OEGammaDist, oe_loglik_and_score
from .family import DEFAULT_CONTROL, GammaRatioDist, SeriesControl, SeriesResult
from .fit import FitResult, mle_fit, negative_log_lik, standard_errors
from .gof import (
    GofReport,
    anderson_darling,
    cramer_von_mises,
    gof_report,
    info_criteria,
)
from .models import (
    FittableModel,
    get_model,
    list_models,
    oe_gamma_model,
    weibull_model,
    zb_gamma_exp_model,
)

__version__ = "0.1.0"

__all__ = [
    "BaseDistribution",
    "DataError",
    "DEFAULT_CONTROL",
    "Dataset",
    "DivergenceError",
    "FitError",
    "FitResult",
    "FittableModel",
    "GammaRatioDist",
    "GofReport",
    "NumericalError",
    "OEGammaDist",
    "SeriesControl",
    "SeriesResult",
    "Summary",
    "anderson_darling",
    "cramer_von_mises",
    "get_model",
    "gof_report",
    "info_criteria",
    "list_models",
    "load_csv",
    "make_exponential",
    "mle_fit",
    "negative_log_lik",
    "oe_gamma_model",
    "oe_loglik_and_score",
    "standard_errors",
    "summary",
    "weibull_model",
    "wheaton",
    "write_csv",
    "zb_gamma_exp_model",
    "__version__",
]
