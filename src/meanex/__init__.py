"""meanex: mean excess function analysis.

Empirical and theoretical mean excess curves, uniform consistency bands
with explicit constants, GPD fitting from mean-excess linearity,
generalized hyperbolic and generalized inverse Gaussian distributions,
a deterministic Monte Carlo harness, and OHLCV return ingestion.

Only the four modules that work with a law import scipy: ``bessel``,
``gig``, ``gh`` and ``distributions``. Their names are exported lazily
(PEP 562): the module loads on the first use of one of them, so
``import meanex`` and the sample-only work (empirical curves, bands,
GPD fits, OHLCV ingestion) need numpy alone.
"""

from importlib import import_module as _import_module

from .errors import DomainError, InputError, MeanexError, NumericError
from .gpdfit import (
    GpdParams,
    OlsFit,
    classify_tail,
    fit_gpd_curve,
    gpd_from_ols,
    gpd_mef,
    ols_fit,
)
from .mef import (
    asymptotic_variance,
    band_constants,
    consistency_band,
    default_grid,
    empirical_mef,
    empirical_mef_curve,
    h_u_values,
    sup_deviation,
    theoretical_mef,
    theoretical_mef_curve,
)
from .montecarlo import (
    ExperimentReport,
    StallionCurve,
    convergence_experiment,
    coverage_experiment,
    fourth_moment_identity,
    fourth_moment_oracle,
    stallion,
)
from .ohlcv import (
    OhlcvRecord,
    PriceSeries,
    log_returns,
    monthly_last,
    parse_ohlcv_csv,
    returns,
)
from .serialize import (
    band_csv,
    compare_csv,
    curve_csv,
    experiment_csv,
    fit_csv,
    ohlcv_csv,
    write_text,
)
from .svgplot import PlotSpec, band_series, line_series, svg_plot
from .types import (
    Band,
    BandConstants,
    Grid,
    MefCurve,
    Sample,
    make_curve,
    make_grid,
    make_sample,
)

__version__ = "0.1.0"

# name -> the scipy-backed module that defines it; a module maps to itself
_LAZY = {
    "bessel": "bessel",
    "bessel_k": "bessel",
    "bessel_k_scaled": "bessel",
    "distributions": "distributions",
    "DistributionSpec": "distributions",
    "dist_isf": "distributions",
    "dist_mean": "distributions",
    "dist_mean_abs": "distributions",
    "dist_ppf": "distributions",
    "dist_support": "distributions",
    "fdelta_check": "distributions",
    "format_distribution_spec": "distributions",
    "make_spec": "distributions",
    "parse_distribution_spec": "distributions",
    "std_cdf": "distributions",
    "std_pdf": "distributions",
    "std_sample": "distributions",
    "std_survival": "distributions",
    "gh": "gh",
    "GhParams": "gh",
    "gh_mean": "gh",
    "gh_norming": "gh",
    "gh_pdf": "gh",
    "gh_sample": "gh",
    "gh_validate": "gh",
    "gh_variance": "gh",
    "gig": "gig",
    "gig_moment": "gig",
    "gig_pdf": "gig",
    "gig_sample": "gig",
    "gig_validate": "gig",
}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY)
)


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
